"""Record the expected output of every verify-catalog operation.

    python3 bench/record_digests.py

Runs ``supermoyal verify <model> --json`` once per model and writes the exit
code, line count and SHA-256 of the JSON lines to
``expected/verify_catalog.json``.  Re-record only when a change is meant to
alter verification output; the benchmark treats any difference as a failure.
"""

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
os.chdir(BENCH_DIR.parent)

import workloads  # noqa: E402  (needs the paths above)


def main() -> None:
    wl = workloads.VerifyCatalog()
    out = {}
    for model in wl.prepare(0)["models"]:
        code, text, _ = wl.run_op(None, model)
        out[model] = {"exit": code, "lines": len(text.splitlines()),
                      "sha256": workloads.digest(text)}
    workloads.EXPECTED_VERIFY.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

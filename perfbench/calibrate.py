"""The benchmark's `calibrate` command: decision calibration and multiaccuracy.

The CLI has no command for these two audits, so the benchmark runs them
in a fresh interpreter through the package's public functions, as a
user's script would:

    PYTHONPATH=src python3 perfbench/calibrate.py --config S.json --model M.json

Prints both reports as one JSON object. Their verdicts are findings,
not errors, so the exit code is 0 whenever both audits ran.
"""

from __future__ import annotations

import argparse
import json
import sys

from omnipredict.adapt import augment_scenario
from omnipredict.audit import audit_decision_calibration, audit_multiaccuracy
from omnipredict.core import load_scenario
from omnipredict.predictor import deserialize, read_model_document

GRID_STEPS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="calibrate")
    parser.add_argument("--config", required=True)
    parser.add_argument("--model", required=True)
    args = parser.parse_args(argv)
    scenario = load_scenario(args.config)
    doc = read_model_document(args.model)
    if doc.get("fingerprint", {}).get("adapt", False):
        scenario = augment_scenario(scenario)
    pred = deserialize(doc, scenario)
    eps = scenario.epsilon
    dc = audit_decision_calibration(pred, scenario, eps, grid_steps=GRID_STEPS)
    ma = audit_multiaccuracy(pred, scenario, eps)
    print(
        json.dumps(
            {
                "decision_calibration": dc.to_json_dict(),
                "multiaccuracy": ma.to_json_dict(),
            },
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Times one cold set-up of a workload in a fresh interpreter.

Set-up is everything a user pays before the first round: importing stalefl
(and numpy), parsing the config and building the objective, dataset or
instance. Usage:

    python3 perfbench/setup_probe.py '[["cfg.ini", ["section.key=value"]], ...]'

prints the elapsed seconds as JSON on stdout.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import stalefl.cli as cli  # noqa: E402

for config, overrides in json.loads(sys.argv[1]):
    cfg = cli.load_config(config, overrides)
    cli.build_objective(cfg, cli.build_profile(cfg))
print(json.dumps({"setup_s": time.perf_counter() - t0}))

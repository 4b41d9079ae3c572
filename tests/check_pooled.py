"""Exit non-zero unless every manifest named on the command line records a
run over two or more forked helpers (``environment.workers``).

A layout comparison (``cmp`` of a pooled run's data files against an
in-process run's) shows nothing when both ran in-process, so the CI layout
steps run this on their pooled runs' manifests:

    python tests/check_pooled.py OUT/manifest.json [OUT2/manifest.json ...]
"""

import json
import sys
from pathlib import Path


def main(paths: list[str]) -> int:
    if not paths:
        sys.exit("usage: check_pooled.py MANIFEST [MANIFEST ...]")
    low = [p for p in paths
           if json.loads(Path(p).read_text())["environment"]["workers"] < 2]
    if low:
        sys.exit(f"ran in-process, not pooled: {low}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

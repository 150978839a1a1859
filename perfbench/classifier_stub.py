"""Out-of-process classifier for the churn-cmd workload.

Speaks the JSON-lines protocol of ``streamdet.propagation.CommandClassifier``:
one request per stdin line, ``{"frame_path": ..., "boxes": [[x, y, w, h], ...]}``,
answered by one stdout line ``{"scores": [[...], ...]}``. Each request reads
its frame from disk with ``streamdet.imio.read_ppm`` and scores the boxes with
the oracle colour rule, so every call pays real I/O and process-boundary cost.

Run with ``src`` on ``PYTHONPATH``; the classes are the command-line
arguments (default: red green blue). The process exits on end of input.
"""

from __future__ import annotations

import json
import sys

from streamdet.core import Box
from streamdet.imio import read_ppm
from streamdet.propagation import OracleColorClassifier


def main(argv: list[str]) -> int:
    oracle = OracleColorClassifier(argv or ("red", "green", "blue"))
    for line in sys.stdin:
        request = json.loads(line)
        frame = read_ppm(request["frame_path"])
        boxes = [Box(*b) for b in request["boxes"]]
        scores = oracle.classify(frame, boxes)
        sys.stdout.write(json.dumps({"scores": scores.tolist()}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

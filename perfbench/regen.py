"""Regenerate the benchmark's derived inputs under perfbench/data.

    python3 perfbench/regen.py

Writes ``corpus.json``, a snapshot of ``comfnet.corpus.standard_corpus()``
as ``[n, [[u, v], ...]]`` per graph in corpus order, and copies the two
proven no-team fixtures from ``tests/data``. The benchmark reads only the
snapshot, so later changes to comfnet's corpus code do not change its
inputs. Run from the repository root.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "perfbench" / "data"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from comfnet.corpus import standard_corpus

    graphs = [[g.n, sorted(g.edges)] for g in standard_corpus()]
    text = "[\n" + ",\n".join(json.dumps(entry) for entry in graphs) + "\n]\n"
    (DATA / "corpus.json").write_text(text)
    for name in ("no_team_n15.txt", "no_team_n16.txt"):
        shutil.copyfile(ROOT / "tests" / "data" / name, DATA / name)
    print(f"wrote {len(graphs)} corpus graphs and 2 fixtures to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

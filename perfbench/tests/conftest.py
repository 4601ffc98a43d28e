import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The harness modules import each other as top-level modules, as they do
# when run.py and worker.py run as scripts; the package comes from src.
for path in (HERE.parent, HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

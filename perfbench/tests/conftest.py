import sys
from pathlib import Path

# The benchmark's modules sit one directory up and are not a package; the
# program is imported from the checkout's sources, as the benchmark runs it.
_HERE = Path(__file__).resolve()
sys.path.insert(0, str(_HERE.parents[2] / "src"))
sys.path.insert(0, str(_HERE.parents[1]))

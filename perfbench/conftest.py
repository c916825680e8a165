import sys
from pathlib import Path

# the benchmark measures the library in this checkout, not an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

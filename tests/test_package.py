import subprocess
import sys
from pathlib import Path

import diffdim

SRC = Path(__file__).resolve().parent.parent / "src"

# numpy is installed beside the tests (the benchmark records its version),
# so only a fresh interpreter shows that the package itself never loads it
NO_NUMPY = """
import sys
sys.path.insert(0, sys.argv[1])
import diffdim
from diffdim import cli
assert diffdim.volume(diffdim.ExponentSet(2, ((1, 2),)), 30) == 90
diffdim.kolchin_polynomial(diffdim.parse_system("m = 2\\nn = 1\\neq: d[0,2]x1\\n"))
assert cli.main(["interpolate", "--values", "1,3,5", "--start", "0"]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_every_exported_name_resolves():
    assert [name for name in diffdim.__all__ if not hasattr(diffdim, name)] == []


def test_package_loads_no_numpy():
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr

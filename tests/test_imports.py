"""config.py sits below the modules that read the config.

The simulator, the discriminator and the pipeline import `PipelineConfig`;
if config.py imported any of them back, they could only name the config
under `TYPE_CHECKING`. The package's `__init__.py` imports every module,
so the check loads the package without it: a bare module whose
`__path__` is the source directory stands in for `refground`, and
`import refground.config` then runs config.py and what it imports, and
nothing else.
"""

import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "refground"


def test_importing_config_loads_no_simulator():
    code = (
        "import sys, types\n"
        "sys.modules['refground'] = package = types.ModuleType('refground')\n"
        f"package.__path__ = [{str(PACKAGE)!r}]\n"
        "import refground.config\n"
        "print(' '.join(sorted(name for name in sys.modules if name.startswith('refground.'))))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert "refground.config" in loaded
    assert "refground.simulator" not in loaded

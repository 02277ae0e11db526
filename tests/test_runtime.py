"""The runtime stays stdlib-only and light: no foreign or heavy stdlib module is imported."""

import subprocess
import sys
from pathlib import Path

import kstruve

# -I ignores the environment and the user site, -S skips site-packages and
# their .pth hooks, so only the standard library and the package can load
_PROBE = """
import io, sys
sys.path.insert(0, sys.argv[1])
import kstruve, kstruve.cli
code = kstruve.cli.main(sys.argv[2:], stdout=io.StringIO(), stderr=io.StringIO())
print(code)
for name in sorted({m.partition(".")[0] for m in sys.modules}):
    print(name)
"""


# a table-format verify and an eval, each in its own fresh interpreter
_RUNS = (
    ("verify", "theorem1", "--alpha", "1", "--mu", "0.5", "--nu", "2", "--c", "1", "--k", "1", "--y", "20"),
    ("eval", "struve_h", "--nu", "0", "--x", "1"),
)

# stdlib modules that neither import nor those runs load: dataclasses, typing
# (with inspect behind them) and json take longer to import than a verify point
# takes to compute; only a grid config needs configparser, only --format csv
# needs csv, and only the Gauss-Kronrod rule, which no identity runs, needs heapq
_UNLOADED = ("configparser", "csv", "dataclasses", "heapq", "inspect", "json", "typing")


def test_runtime_imports_only_the_standard_library():
    src = Path(kstruve.__file__).resolve().parent.parent
    for argv in _RUNS:
        run = subprocess.run(
            [sys.executable, "-I", "-S", "-c", _PROBE, str(src), *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        code, *names = run.stdout.split()
        assert code == "0", (argv, run.stdout)
        assert "kstruve" in names
        foreign = [n for n in names if n not in ("__main__", "kstruve") and n not in sys.stdlib_module_names]
        assert not foreign, (argv, foreign)
        assert not [n for n in _UNLOADED if n in names], argv
